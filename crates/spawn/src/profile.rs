//! The profile-based spawning-pair selector (§3.1).

use specmt_analysis::{BasicBlocks, BlockStream, DynCfg, PairStat, ReachingAnalysis};
use specmt_store::{Fingerprint, FingerprintHasher};
use specmt_trace::{DepGraph, Trace, NO_PRODUCER};

use crate::{return_pairs, PairOrigin, SpawnPair, SpawnTable};

/// How alternative CQIPs for the same spawning point are ranked (§3.1 lists
/// the three; §4.3.1 evaluates the latter two under realistic value
/// prediction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrderCriterion {
    /// Maximise the expected SP→CQIP distance (the paper's default and
    /// overall best).
    #[default]
    MaxDistance,
    /// Maximise the number of spawned-thread instructions independent of
    /// the code between SP and CQIP.
    Independent,
    /// Maximise the number of spawned-thread instructions that are
    /// independent *or* depend only on stride-predictable live-in register
    /// values.
    Predictable,
}

/// Configuration of the profile-based selector. [`Default`] matches the
/// paper's evaluation: probability ≥ 0.95, distance ≥ 32 instructions,
/// 90 % CFG coverage, max-distance ordering. Call→return-point pairs are
/// always added (§3.1's final step).
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Minimum reaching probability for a candidate pair.
    pub min_prob: f64,
    /// Minimum expected SP→CQIP distance, in instructions.
    pub min_distance: f64,
    /// Maximum expected SP→CQIP distance for basic-block pairs, or `None`
    /// for unbounded. §3 requires the distance "not be too small or too
    /// large": small threads cost overhead, large threads cause work
    /// imbalance. The paper quantifies only the minimum (32); we bound the
    /// maximum at 300 instructions by default. Return pairs are exempt, as
    /// in the paper (they are filtered by the size minimum only).
    pub max_distance: Option<f64>,
    /// Fraction of executed instructions the pruned CFG must cover.
    pub coverage: f64,
    /// CQIP ranking criterion.
    pub criterion: OrderCriterion,
}

impl Default for ProfileConfig {
    fn default() -> ProfileConfig {
        ProfileConfig {
            min_prob: 0.95,
            min_distance: 32.0,
            max_distance: Some(300.0),
            coverage: 0.9,
            criterion: OrderCriterion::MaxDistance,
        }
    }
}

impl Fingerprint for OrderCriterion {
    fn fingerprint(&self, h: &mut FingerprintHasher) {
        h.str(match self {
            OrderCriterion::MaxDistance => "max-distance",
            OrderCriterion::Independent => "independent",
            OrderCriterion::Predictable => "predictable",
        });
    }
}

impl Fingerprint for ProfileConfig {
    fn fingerprint(&self, h: &mut FingerprintHasher) {
        h.struct_tag("ProfileConfig");
        h.f64(self.min_prob);
        h.f64(self.min_distance);
        self.max_distance.fingerprint(h);
        h.f64(self.coverage);
        self.criterion.fingerprint(h);
    }
}

/// Output of [`profile_pairs`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileResult {
    /// The spawn table (profile pairs plus return pairs).
    pub table: SpawnTable,
    /// Number of basic-block pairs passing the probability and distance
    /// thresholds (Figure 2's "total pairs").
    pub selected_pairs: usize,
    /// Number of distinct spawning points among them (Figure 2's pairs
    /// "that have different spawning points").
    pub distinct_sps: usize,
    /// Blocks kept by the CFG pruning.
    pub kept_blocks: usize,
    /// Instruction coverage actually achieved by the kept blocks.
    pub coverage: f64,
}

// Serialized so the harness's disk cache can memoize profile runs.
serde::impl_serde_struct!(ProfileResult {
    table,
    selected_pairs,
    distinct_sps,
    kept_blocks,
    coverage,
});

/// Runs the full §3.1 pipeline on a profile trace.
///
/// 1. Build the dynamic CFG and prune it to `coverage` (90 % in the paper),
///    splicing edges around pruned blocks.
/// 2. Measure reaching probabilities and expected distances for all ordered
///    pairs of surviving blocks.
/// 3. Keep pairs with probability ≥ `min_prob` and distance ≥
///    `min_distance`; the SP and CQIP are the first instructions of the
///    respective blocks.
/// 4. Rank alternative CQIPs per SP by the configured criterion.
/// 5. Add call→return-point pairs meeting the size constraint.
pub fn profile_pairs(trace: &Trace, config: &ProfileConfig) -> ProfileResult {
    let bbs = BasicBlocks::of(trace.program());
    let stream = BlockStream::new(trace, &bbs);
    let mut cfg = DynCfg::build(&stream, &bbs);
    let summary = cfg.prune_to_coverage(config.coverage);
    let tracked = cfg.kept_blocks();
    let reach = ReachingAnalysis::compute(&stream, &tracked);

    let mut candidates = reach.pairs(config.min_prob, config.min_distance);
    if let Some(max) = config.max_distance {
        candidates.retain(|c| c.avg_dist <= max);
    }
    let selected_pairs = candidates.len();
    let mut sps: Vec<u32> = candidates.iter().map(|c| c.sp_block).collect();
    sps.sort_unstable();
    sps.dedup();
    let distinct_sps = sps.len();

    let mut pairs: Vec<SpawnPair> = match config.criterion {
        OrderCriterion::MaxDistance => candidates
            .iter()
            .map(|c| SpawnPair {
                sp: bbs.start(c.sp_block),
                cqip: bbs.start(c.cqip_block),
                prob: c.prob,
                avg_dist: c.avg_dist,
                score: c.avg_dist,
                origin: PairOrigin::Profile,
            })
            .collect(),
        OrderCriterion::Independent | OrderCriterion::Predictable => {
            let scorer = DepScorer::new(trace, &stream, &candidates, |b| reach.occurrences(b));
            candidates
                .iter()
                .map(|c| {
                    let (indep, pred) = scorer.score(c.sp_block, c.cqip_block);
                    let score = match config.criterion {
                        OrderCriterion::Independent => indep,
                        _ => pred,
                    };
                    SpawnPair {
                        sp: bbs.start(c.sp_block),
                        cqip: bbs.start(c.cqip_block),
                        prob: c.prob,
                        avg_dist: c.avg_dist,
                        score,
                        origin: PairOrigin::Profile,
                    }
                })
                .collect()
        }
    };

    let (ret_pairs, _) = return_pairs(trace, config.min_distance);
    pairs.extend(ret_pairs);

    ProfileResult {
        table: SpawnTable::from_pairs(pairs),
        selected_pairs,
        distinct_sps,
        kept_blocks: tracked.len(),
        coverage: summary.coverage,
    }
}

/// Samples pair occurrences and scores the spawned-thread window by
/// transitive dependence on the spawn region.
struct DepScorer<'a> {
    trace: &'a Trace,
    deps: &'a DepGraph,
    /// Per block, the first dynamic index of each of its occurrences,
    /// ascending; kept only for the candidates' SP and CQIP blocks (empty
    /// for every other block).
    occ: Vec<Vec<u32>>,
}

impl std::fmt::Debug for DepScorer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepScorer").finish_non_exhaustive()
    }
}

/// Occurrences sampled per pair when scoring the `Independent` /
/// `Predictable` criteria.
const DEP_SAMPLES: usize = 4;
/// Cap on the dependence-analysis window per sample, in instructions.
const MAX_SCORE_WINDOW: usize = 2048;

/// Dependence mask bit marking a load of memory written inside the spawn
/// region (never predictable: the paper does not predict memory values).
const MEM_BIT: u64 = 1 << 32;

impl<'a> DepScorer<'a> {
    /// Collects the occurrence lists of the candidates' blocks in one walk
    /// of `stream`, each list allocated at its exact length, `occurrences`
    /// of the block.
    fn new(
        trace: &'a Trace,
        stream: &BlockStream,
        candidates: &[PairStat],
        occurrences: impl Fn(u32) -> u64,
    ) -> DepScorer<'a> {
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); stream.num_blocks()];
        for c in candidates {
            for b in [c.sp_block, c.cqip_block] {
                let list = &mut occ[b as usize];
                if list.capacity() == 0 {
                    list.reserve_exact(occurrences(b) as usize);
                }
            }
        }
        // Only a candidate's block that occurs has a reserved list.
        for ev in stream.events() {
            let list = &mut occ[ev.block as usize];
            if list.capacity() > 0 {
                list.push(ev.first_dyn);
            }
        }
        DepScorer {
            trace,
            deps: trace.deps(),
            occ,
        }
    }

    /// Returns `(independent, predictable)` scores: the average number of
    /// thread instructions independent of the spawn region, and the average
    /// number independent or fed only by stride-predictable live-ins.
    fn score(&self, sp_block: u32, cqip_block: u32) -> (f64, f64) {
        let sp_occ = &self.occ[sp_block as usize];
        if sp_occ.is_empty() {
            return (0.0, 0.0);
        }
        let cqip_occ = &self.occ[cqip_block as usize];
        // Evenly-spaced sample of SP occurrences.
        let stride = (sp_occ.len() / DEP_SAMPLES).max(1);
        let mut windows: Vec<SampleWindow> = Vec::new();
        for &sp_dyn in sp_occ.iter().step_by(stride).take(DEP_SAMPLES) {
            // Window closes at the next SP occurrence.
            let next_sp = match sp_occ.binary_search(&(sp_dyn + 1)) {
                Ok(p) | Err(p) => sp_occ.get(p).copied().unwrap_or(u32::MAX),
            };
            // First CQIP occurrence strictly after the SP occurrence...
            let cqip_dyn = match cqip_occ.binary_search(&(sp_dyn + 1)) {
                Ok(p) | Err(p) => match cqip_occ.get(p) {
                    Some(&e) => e,
                    None => continue,
                },
            };
            // ...that still falls inside the window.
            if sp_block != cqip_block && cqip_dyn >= next_sp {
                continue;
            }
            let (sp_dyn, cqip_dyn) = (sp_dyn as usize, cqip_dyn as usize);
            let dist = cqip_dyn - sp_dyn;
            let end = (cqip_dyn + dist.min(MAX_SCORE_WINDOW)).min(self.trace.len());
            windows.push(self.analyse_window(sp_dyn, cqip_dyn, end));
        }
        if windows.is_empty() {
            return (0.0, 0.0);
        }

        // Per-register live-in predictability across the sampled
        // occurrences, with a fresh two-delta stride model per register.
        let mut predictable_reg = [true; specmt_isa::NUM_REGS];
        for (r, predictable) in predictable_reg.iter_mut().enumerate() {
            let values: Vec<u64> = windows.iter().filter_map(|w| w.live_in_values[r]).collect();
            if values.len() >= 2 {
                let mut hits = 0usize;
                let mut last = values[0];
                let mut stride = 0i64;
                for &v in &values[1..] {
                    if last.wrapping_add(stride as u64) == v {
                        hits += 1;
                    }
                    stride = v.wrapping_sub(last) as i64;
                    last = v;
                }
                *predictable = hits * 10 >= (values.len() - 1) * 6;
            }
            // With fewer than two observations, keep the optimistic default:
            // loop-invariant live-ins (base pointers, bounds) predict
            // perfectly with stride zero.
        }

        let mut indep_sum = 0.0;
        let mut pred_sum = 0.0;
        for w in &windows {
            let mut indep = 0u32;
            let mut pred = 0u32;
            for &mask in &w.masks {
                if mask == 0 {
                    indep += 1;
                    pred += 1;
                } else if mask & MEM_BIT == 0 {
                    let ok = predictable_reg
                        .iter()
                        .enumerate()
                        .all(|(r, &p)| mask & (1 << r) == 0 || p);
                    if ok {
                        pred += 1;
                    }
                }
            }
            indep_sum += indep as f64;
            pred_sum += pred as f64;
        }
        let n = windows.len() as f64;
        (indep_sum / n, pred_sum / n)
    }

    /// Computes, for each instruction of `[cqip_dyn, end)`, the transitive
    /// dependence mask on the spawn region `[sp_dyn, cqip_dyn)`: one bit per
    /// live-in register plus [`MEM_BIT`]; zero means independent. Also
    /// records each live-in register's value for predictability training.
    ///
    /// Register producers come from one forward last-writer pass over
    /// `[sp_dyn, end)`. A source whose producer precedes `sp_dyn` finds no
    /// writer in the table, and such a producer adds nothing to the mask
    /// either way.
    fn analyse_window(&self, sp_dyn: usize, cqip_dyn: usize, end: usize) -> SampleWindow {
        let mut masks = vec![0u64; end - cqip_dyn];
        let mut live_in_values = [None; specmt_isa::NUM_REGS];
        let mut writer = [NO_PRODUCER; specmt_isa::NUM_REGS];
        let insts = self.trace.program().insts();
        let mut pcs = self.trace.pcs_from(sp_dyn);
        for (k, pc) in (sp_dyn..cqip_dyn).zip(&mut pcs) {
            if let Some(d) = insts[pc.index()].dst() {
                writer[d.index()] = k as u32;
            }
        }
        for (k, pc) in (cqip_dyn..end).zip(pcs) {
            let inst = &insts[pc.index()];
            let mut mask = 0u64;
            for r in inst.srcs().into_iter().flatten() {
                if r.is_zero() {
                    continue;
                }
                let p = writer[r.index()];
                if p == NO_PRODUCER {
                    continue;
                }
                let p = p as usize;
                if p >= cqip_dyn {
                    mask |= masks[p - cqip_dyn];
                } else if p >= sp_dyn {
                    mask |= 1 << r.index();
                    live_in_values[r.index()].get_or_insert(self.trace.result_at(p));
                }
            }
            if inst.is_load() {
                let p = self.deps.mem_producer(k);
                if p != NO_PRODUCER {
                    let p = p as usize;
                    if p >= cqip_dyn {
                        mask |= masks[p - cqip_dyn];
                    } else if p >= sp_dyn {
                        mask |= MEM_BIT;
                    }
                }
            }
            masks[k - cqip_dyn] = mask;
            if let Some(d) = inst.dst() {
                writer[d.index()] = k as u32;
            }
        }
        SampleWindow {
            masks,
            live_in_values,
        }
    }
}

struct SampleWindow {
    masks: Vec<u64>,
    live_in_values: [Option<u64>; specmt_isa::NUM_REGS],
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::{Inst, Pc, ProgramBuilder, Reg};
    use specmt_trace::{Emulator, StepOutcome};
    use std::sync::Arc;

    /// A loop over independent array blocks: iterations only share the
    /// induction variable.
    fn independent_loop(n: i64) -> Trace {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R14, 0x10000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, n);
        b.bind(top);
        b.shli(Reg::R3, Reg::R1, 3);
        b.add(Reg::R3, Reg::R14, Reg::R3);
        // 40 instructions of per-iteration work, independent across
        // iterations.
        for _ in 0..20 {
            b.ld(Reg::R4, Reg::R3, 0);
            b.st(Reg::R4, Reg::R3, 0);
        }
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        Trace::generate(b.build().unwrap(), 1_000_000).unwrap()
    }

    #[test]
    fn finds_loop_iteration_pair_in_independent_loop() {
        let trace = independent_loop(100);
        let result = profile_pairs(&trace, &ProfileConfig::default());
        assert!(result.selected_pairs >= 1, "no pairs selected");
        // The loop-body self pair (head @3 -> head @3) must be selected:
        // probability 99/100, distance 44.
        let head = Pc(3);
        let cands = result.table.candidates(head);
        assert!(
            cands.iter().any(|p| p.cqip == head),
            "missing self pair at {head}: {cands:?}"
        );
        let p = cands.iter().find(|p| p.cqip == head).unwrap();
        assert!(p.prob >= 0.95);
        assert!((p.avg_dist - 44.0).abs() < 1e-9);
    }

    #[test]
    fn threshold_filters_low_probability_pairs() {
        let trace = independent_loop(100);
        let strict = profile_pairs(
            &trace,
            &ProfileConfig {
                min_prob: 0.999,
                ..ProfileConfig::default()
            },
        );
        let lax = profile_pairs(
            &trace,
            &ProfileConfig {
                min_prob: 0.5,
                ..ProfileConfig::default()
            },
        );
        assert!(strict.selected_pairs <= lax.selected_pairs);
    }

    #[test]
    fn distinct_sps_never_exceed_selected_pairs() {
        let trace = independent_loop(64);
        let r = profile_pairs(&trace, &ProfileConfig::default());
        assert!(r.distinct_sps <= r.selected_pairs);
        assert!(r.coverage >= 0.9);
        assert!(r.kept_blocks >= 1);
    }

    #[test]
    fn induction_variable_serialises_independence_but_predicts_away() {
        // Transitively, every instruction of an iteration hangs off the
        // induction variable produced by the previous iteration, so the
        // *independent* score is near zero — but the induction variable is
        // perfectly stride-predictable, so the *predictable* score recovers
        // nearly the whole 44-instruction thread. This asymmetry is exactly
        // why the paper introduces criterion (c).
        let trace = independent_loop(100);
        let score_for = |criterion| {
            let r = profile_pairs(
                &trace,
                &ProfileConfig {
                    criterion,
                    ..ProfileConfig::default()
                },
            );
            let head = Pc(3);
            r.table
                .candidates(head)
                .iter()
                .find(|p| p.cqip == head)
                .expect("self pair")
                .score
        };
        let indep = score_for(OrderCriterion::Independent);
        let pred = score_for(OrderCriterion::Predictable);
        assert!(indep < 5.0, "independent score {indep}");
        assert!(pred > 38.0, "predictable score {pred}");
    }

    #[test]
    fn predictable_criterion_dominates_independent() {
        // Predictable counts independent instructions too, so its score is
        // always >= the independent score.
        let trace = independent_loop(100);
        let ri = profile_pairs(
            &trace,
            &ProfileConfig {
                criterion: OrderCriterion::Independent,
                ..ProfileConfig::default()
            },
        );
        let rp = profile_pairs(
            &trace,
            &ProfileConfig {
                criterion: OrderCriterion::Predictable,
                ..ProfileConfig::default()
            },
        );
        for pi in ri.table.iter().filter(|p| p.origin == PairOrigin::Profile) {
            let pp = rp
                .table
                .candidates(pi.sp)
                .iter()
                .find(|p| p.cqip == pi.cqip)
                .expect("same pair set");
            assert!(
                pp.score >= pi.score - 1e-9,
                "predictable {} < independent {} for {:?}",
                pp.score,
                pi.score,
                (pi.sp, pi.cqip)
            );
        }
    }

    #[test]
    fn serial_chain_scores_low_on_independence() {
        // A loop where everything hangs off a serial accumulator.
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 100);
        b.li(Reg::R5, 1);
        b.bind(top);
        for _ in 0..40 {
            b.muli(Reg::R5, Reg::R5, 3); // serial, value-unpredictable chain
        }
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        let trace = Trace::generate(b.build().unwrap(), 1_000_000).unwrap();
        for criterion in [OrderCriterion::Independent, OrderCriterion::Predictable] {
            let r = profile_pairs(
                &trace,
                &ProfileConfig {
                    criterion,
                    ..ProfileConfig::default()
                },
            );
            let head = Pc(3);
            let p = r
                .table
                .candidates(head)
                .iter()
                .find(|p| p.cqip == head)
                .expect("self pair");
            // A multiplicative chain is neither independent nor
            // stride-predictable; only the induction-variable instructions
            // escape it.
            assert!(p.score < 10.0, "{criterion:?} score {}", p.score);
        }
    }

    /// The reference for [`DepScorer::analyse_window`]: each source's
    /// producer is found by a backward search through the whole trace
    /// prefix, for the last writer of the register or the last store to the
    /// loaded address.
    fn analyse_window_naive(
        trace: &Trace,
        sp_dyn: usize,
        cqip_dyn: usize,
        end: usize,
    ) -> SampleWindow {
        // The whole prefix's instructions, from the emulator's records.
        let mut emu = Emulator::new(Arc::clone(trace.program()));
        let insts: Vec<Inst> = (0..end)
            .map(|_| match emu.step() {
                Ok(StepOutcome::Executed(rec)) => trace.program().insts()[rec.pc.index()],
                other => panic!("the emulator stopped early: {other:?}"),
            })
            .collect();
        let last_writer = |k: usize, r: Reg| insts[..k].iter().rposition(|i| i.dst() == Some(r));
        let last_store = |k: usize| {
            let addr = trace.addr_at(k);
            (0..k)
                .rev()
                .find(|&j| insts[j].is_store() && trace.addr_at(j) == addr)
        };
        let mut masks = vec![0u64; end - cqip_dyn];
        let mut live_in_values = [None; specmt_isa::NUM_REGS];
        for k in cqip_dyn..end {
            let inst = &insts[k];
            let mut mask = 0u64;
            for r in inst.srcs().into_iter().flatten().filter(|r| !r.is_zero()) {
                match last_writer(k, r) {
                    Some(p) if p >= cqip_dyn => mask |= masks[p - cqip_dyn],
                    Some(p) if p >= sp_dyn => {
                        mask |= 1 << r.index();
                        live_in_values[r.index()].get_or_insert(trace.result_at(p));
                    }
                    _ => {}
                }
            }
            if inst.is_load() {
                match last_store(k) {
                    Some(p) if p >= cqip_dyn => mask |= masks[p - cqip_dyn],
                    Some(p) if p >= sp_dyn => mask |= MEM_BIT,
                    _ => {}
                }
            }
            masks[k - cqip_dyn] = mask;
        }
        SampleWindow {
            masks,
            live_in_values,
        }
    }

    fn assert_window_matches_naive(trace: &Trace, scorer: &DepScorer, win: (usize, usize, usize)) {
        let (sp_dyn, cqip_dyn, end) = win;
        let fast = scorer.analyse_window(sp_dyn, cqip_dyn, end);
        let naive = analyse_window_naive(trace, sp_dyn, cqip_dyn, end);
        assert_eq!(fast.masks, naive.masks, "masks of window {win:?}");
        assert_eq!(
            fast.live_in_values, naive.live_in_values,
            "live-ins of window {win:?}"
        );
    }

    /// Windows shaped as [`DepScorer::score`] shapes them: the thread
    /// extends past the CQIP by the spawn distance, capped at
    /// `MAX_SCORE_WINDOW` and at the trace end.
    fn window(trace: &Trace, sp_dyn: usize, dist: usize) -> (usize, usize, usize) {
        let cqip_dyn = (sp_dyn + dist).min(trace.len());
        let end = (cqip_dyn + dist.min(MAX_SCORE_WINDOW)).min(trace.len());
        (sp_dyn, cqip_dyn, end)
    }

    fn check_windows_against_naive(trace: &Trace, samples: usize) {
        let bbs = BasicBlocks::of(trace.program());
        let stream = BlockStream::new(trace, &bbs);
        let scorer = DepScorer::new(trace, &stream, &[], |_| 0);
        let n = trace.len();
        // A fixed xorshift sequence spreads the windows over the trace.
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ n as u64;
        for _ in 0..samples {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let sp_dyn = (x % n as u64) as usize;
            let dist = ((x >> 32) % 400) as usize;
            assert_window_matches_naive(trace, &scorer, window(trace, sp_dyn, dist));
        }
        // A spawn region longer than the thread window it feeds.
        let dist = MAX_SCORE_WINDOW + 500;
        assert_window_matches_naive(trace, &scorer, window(trace, n / 4, dist));
        // Degenerate windows: an empty spawn region, and one at the end.
        assert_window_matches_naive(trace, &scorer, (n / 2, n / 2, (n / 2 + 100).min(n)));
        assert_window_matches_naive(trace, &scorer, (n - 1, n, n));
    }

    #[test]
    fn analyse_window_matches_backward_search_on_suite_traces() {
        for w in specmt_workloads::suite(specmt_workloads::Scale::Tiny) {
            let trace = Trace::generate(w.program, w.step_budget).unwrap();
            check_windows_against_naive(&trace, 24);
        }
    }

    #[test]
    fn analyse_window_matches_backward_search_on_independent_loop() {
        let trace = independent_loop(100);
        check_windows_against_naive(&trace, 64);
        // Iteration `i` starts at dyn 3 + 44 i. With SP at iteration 10 and
        // CQIP at iteration 11, the induction variable r1 is a live-in: it
        // was first written before the SP (dyn 1) and last written in the
        // spawn region, whose value (11) is the one recorded. The base
        // pointer r14, written only at dyn 0, is not.
        let (sp_dyn, cqip_dyn) = (3 + 44 * 10, 3 + 44 * 11);
        let bbs = BasicBlocks::of(trace.program());
        let stream = BlockStream::new(&trace, &bbs);
        let scorer = DepScorer::new(&trace, &stream, &[], |_| 0);
        let w = scorer.analyse_window(sp_dyn, cqip_dyn, cqip_dyn + 44);
        assert_eq!(w.live_in_values[1], Some(11));
        assert_eq!(w.live_in_values[14], None);
        assert!(w.masks.iter().all(|&m| m & !(1 << 1) == 0));
        assert!(w.masks.iter().any(|&m| m != 0));
        assert_window_matches_naive(&trace, &scorer, (sp_dyn, cqip_dyn, cqip_dyn + 44));
    }

    #[test]
    fn return_pairs_are_included() {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 50);
        b.bind(top);
        b.call("leaf");
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.begin_func("leaf");
        for _ in 0..40 {
            b.nop();
        }
        b.ret();
        b.end_func();
        let trace = Trace::generate(b.build().unwrap(), 100_000).unwrap();
        let table = profile_pairs(&trace, &ProfileConfig::default()).table;
        assert!(table.iter().any(|p| p.origin == PairOrigin::ReturnPair));
    }
}
