//! Empirical reaching probabilities and distances, measured on the block
//! stream.

use crate::{BitSet, BlockId, BlockStream};

/// Reaching statistics for one ordered pair of blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairStat {
    /// The candidate spawning-point block.
    pub sp_block: BlockId,
    /// The candidate control-quasi-independent-point block.
    pub cqip_block: BlockId,
    /// Probability of executing `cqip_block` after `sp_block` (with both
    /// appearing only as the endpoints of the dynamic sequence).
    pub prob: f64,
    /// Average dynamic instructions from the first instruction of
    /// `sp_block` to the first instruction of `cqip_block`, over the
    /// occurrences that did reach.
    pub avg_dist: f64,
    /// Occurrences of `sp_block` that reached `cqip_block`.
    pub reach_count: u64,
    /// Total occurrences of `sp_block`.
    pub source_occurrences: u64,
}

/// Empirical reaching analysis over a [`BlockStream`].
///
/// For every ordered pair `(i, j)` of *tracked* blocks this measures the
/// paper's reaching probability directly on the profile: each dynamic
/// occurrence of `i` opens a window that closes at the next occurrence of
/// `i`; `j` is *reached* if it appears inside the window. This realises the
/// §3.1 sequence constraint exactly — the source and destination appear only
/// as the first and last element, interior blocks may repeat — and
/// simultaneously accumulates the expected instruction distance.
///
/// The final, unclosed window of each source still counts in the
/// denominator, so probabilities are very slightly conservative near the end
/// of the trace.
///
/// Two implementations produce bit-identical results:
///
/// * [`ReachingAnalysis::compute`] — the production path. Open-window and
///   credited-this-window state is held as packed `u64` words over the
///   *sources*, so each event costs `O(tracked / 64)` word operations
///   (`AND`/`ANDN` + trailing-zeros extraction of the newly credited bits)
///   plus one unit of work per actual credit. Tracked sources are
///   additionally sharded across [`std::thread::scope`] workers when the
///   problem is large enough; each worker scans the stream once over its
///   slice of sources.
/// * [`ReachingAnalysis::compute_naive`] — the retained reference: the
///   direct per-event scalar scan over every open source,
///   `O(events × tracked)` time. The differential test suite pits the two
///   against each other on random programs.
///
/// Space is `O(tracked²)` bits for window state plus the `O(tracked²)`
/// counter matrices. Track only the blocks kept by
/// [`DynCfg::prune_to_coverage`](crate::DynCfg) to keep both in hand —
/// exactly why the paper prunes, too.
///
/// # Examples
///
/// ```
/// use specmt_isa::{ProgramBuilder, Reg};
/// use specmt_trace::Trace;
/// use specmt_analysis::{BasicBlocks, BlockStream, ReachingAnalysis};
///
/// let mut b = ProgramBuilder::new();
/// let top = b.fresh_label("top");
/// b.li(Reg::R1, 0);
/// b.li(Reg::R2, 50);
/// b.bind(top);
/// b.addi(Reg::R1, Reg::R1, 1); // loop body: block 1
/// b.blt(Reg::R1, Reg::R2, top);
/// b.halt();
/// let program = b.build()?;
/// let bbs = BasicBlocks::of(&program);
/// let trace = Trace::generate(program, 100_000)?;
/// let stream = BlockStream::new(&trace, &bbs);
///
/// let all: Vec<u32> = (0..bbs.num_blocks() as u32).collect();
/// let reach = ReachingAnalysis::compute(&stream, &all);
/// // An iteration almost always reaches the next iteration.
/// assert!(reach.prob(1, 1) > 0.9);
/// assert_eq!(reach.avg_distance(1, 1), 2.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReachingAnalysis {
    tracked: Vec<BlockId>,
    index_of: Vec<i32>,
    n: usize,
    reach: Vec<u64>,
    dist_sum: Vec<u64>,
    occurrences: Vec<u64>,
}

impl ReachingAnalysis {
    /// Measures reaching statistics for all ordered pairs of `tracked`
    /// blocks over `stream` (the word-parallel production implementation;
    /// see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `tracked` contains a block id outside the stream's
    /// decomposition or a duplicate.
    pub fn compute(stream: &BlockStream, tracked: &[BlockId]) -> ReachingAnalysis {
        let (index_of, n) = Self::dense_mapping(stream, tracked);

        // Pre-filter the stream once: untracked events only advance the
        // instruction counter, so fold them into precomputed cumulative
        // offsets and hand the workers a dense (source-id, offset) list.
        let mut events: Vec<(u32, u64)> = Vec::new();
        let mut occurrences = vec![0u64; n];
        let mut cum = 0u64;
        for e in stream.events() {
            let dense = index_of[e.block as usize];
            if dense >= 0 {
                events.push((dense as u32, cum));
                occurrences[dense as usize] += 1;
            }
            cum += e.len as u64;
        }

        let mut reach = vec![0u64; n * n];
        let mut dist_sum = vec![0u64; n * n];

        let words = n.div_ceil(64);
        // Shard whole words of sources across workers. Sharding only pays
        // once both dimensions are big; small problems run inline.
        let threads = if n >= 192 && events.len() >= 1 << 13 {
            std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .min(words)
                .min(8)
        } else {
            1
        };

        if threads <= 1 {
            Shard::new(0, words, n).scan(&events, &mut reach, &mut dist_sum);
        } else {
            let words_per = words.div_ceil(threads);
            // Split the output matrices at shard boundaries so each worker
            // writes its own rows without synchronisation.
            let mut reach_slices: Vec<&mut [u64]> = Vec::with_capacity(threads);
            let mut dist_slices: Vec<&mut [u64]> = Vec::with_capacity(threads);
            let mut reach_rest: &mut [u64] = &mut reach;
            let mut dist_rest: &mut [u64] = &mut dist_sum;
            let mut bounds = Vec::with_capacity(threads);
            for t in 0..threads {
                let w0 = (t * words_per).min(words);
                let w1 = ((t + 1) * words_per).min(words);
                let lo = (w0 * 64).min(n);
                let hi = (w1 * 64).min(n);
                bounds.push((w0, w1));
                let (a, b) = reach_rest.split_at_mut((hi - lo) * n);
                reach_slices.push(a);
                reach_rest = b;
                let (a, b) = dist_rest.split_at_mut((hi - lo) * n);
                dist_slices.push(a);
                dist_rest = b;
            }
            let events = &events;
            std::thread::scope(|s| {
                for (((w0, w1), r), d) in bounds
                    .into_iter()
                    .zip(reach_slices)
                    .zip(dist_slices)
                {
                    s.spawn(move || Shard::new(w0, w1, n).scan(events, r, d));
                }
            });
        }

        ReachingAnalysis {
            tracked: tracked.to_vec(),
            index_of,
            n,
            reach,
            dist_sum,
            occurrences,
        }
    }

    /// The retained scalar reference implementation: a per-event scan over
    /// every open source window. `O(events × tracked)` time — kept as the
    /// oracle the differential tests hold [`ReachingAnalysis::compute`] to;
    /// produces results bit-identical to it.
    ///
    /// # Panics
    ///
    /// As [`ReachingAnalysis::compute`].
    pub fn compute_naive(stream: &BlockStream, tracked: &[BlockId]) -> ReachingAnalysis {
        let (index_of, n) = Self::dense_mapping(stream, tracked);

        let mut reach = vec![0u64; n * n];
        let mut dist_sum = vec![0u64; n * n];
        let mut occurrences = vec![0u64; n];
        let mut open = vec![false; n];
        let mut win_start = vec![0u64; n];
        let mut seen: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();

        let mut cum = 0u64;
        for e in stream.events() {
            let dense = index_of[e.block as usize];
            if dense >= 0 {
                let j = dense as usize;
                for (i, open_i) in open.iter().enumerate() {
                    if *open_i && seen[i].insert(j) {
                        reach[i * n + j] += 1;
                        dist_sum[i * n + j] += cum - win_start[i];
                    }
                }
                occurrences[j] += 1;
                seen[j].clear();
                win_start[j] = cum;
                open[j] = true;
            }
            cum += e.len as u64;
        }

        ReachingAnalysis {
            tracked: tracked.to_vec(),
            index_of,
            n,
            reach,
            dist_sum,
            occurrences,
        }
    }

    /// Builds the block-id → dense-index mapping shared by both
    /// implementations, validating `tracked` along the way.
    fn dense_mapping(stream: &BlockStream, tracked: &[BlockId]) -> (Vec<i32>, usize) {
        let num_blocks = stream.num_blocks();
        let mut index_of = vec![-1i32; num_blocks];
        for (dense, &b) in tracked.iter().enumerate() {
            assert!((b as usize) < num_blocks, "tracked block out of range");
            assert_eq!(index_of[b as usize], -1, "duplicate tracked block");
            index_of[b as usize] = dense as i32;
        }
        (index_of, tracked.len())
    }

    fn dense(&self, block: BlockId) -> Option<usize> {
        self.index_of
            .get(block as usize)
            .and_then(|&i| (i >= 0).then_some(i as usize))
    }

    /// The tracked block ids, in dense order.
    pub fn tracked(&self) -> &[BlockId] {
        &self.tracked
    }

    /// Occurrences of `block` in the stream (zero if untracked).
    pub fn occurrences(&self, block: BlockId) -> u64 {
        self.dense(block).map_or(0, |i| self.occurrences[i])
    }

    /// The reaching probability from `sp_block` to `cqip_block`.
    ///
    /// Zero if either block is untracked or the source never executed.
    pub fn prob(&self, sp_block: BlockId, cqip_block: BlockId) -> f64 {
        let (Some(i), Some(j)) = (self.dense(sp_block), self.dense(cqip_block)) else {
            return 0.0;
        };
        if self.occurrences[i] == 0 {
            return 0.0;
        }
        self.reach[i * self.n + j] as f64 / self.occurrences[i] as f64
    }

    /// Average instructions from `sp_block` to `cqip_block` over reaching
    /// occurrences (zero if it never reached).
    pub fn avg_distance(&self, sp_block: BlockId, cqip_block: BlockId) -> f64 {
        let (Some(i), Some(j)) = (self.dense(sp_block), self.dense(cqip_block)) else {
            return 0.0;
        };
        let r = self.reach[i * self.n + j];
        if r == 0 {
            return 0.0;
        }
        self.dist_sum[i * self.n + j] as f64 / r as f64
    }

    /// All ordered pairs whose probability is at least `min_prob` and whose
    /// average distance is at least `min_dist` instructions — the paper's
    /// candidate spawning pairs (0.95 and 32 in the evaluation).
    ///
    /// Pairs are returned grouped by source block in dense order.
    pub fn pairs(&self, min_prob: f64, min_dist: f64) -> Vec<PairStat> {
        let mut out = Vec::new();
        for i in 0..self.n {
            if self.occurrences[i] == 0 {
                continue;
            }
            for j in 0..self.n {
                let r = self.reach[i * self.n + j];
                if r == 0 {
                    continue;
                }
                let prob = r as f64 / self.occurrences[i] as f64;
                let avg_dist = self.dist_sum[i * self.n + j] as f64 / r as f64;
                if prob >= min_prob && avg_dist >= min_dist {
                    out.push(PairStat {
                        sp_block: self.tracked[i],
                        cqip_block: self.tracked[j],
                        prob,
                        avg_dist,
                        reach_count: r,
                        source_occurrences: self.occurrences[i],
                    });
                }
            }
        }
        out
    }
}

/// One worker's slice of the word-parallel scan: it owns the whole-word
/// range `[w0, w1)` of source bits (sources `w0 * 64 .. min(w1 * 64, n)`).
///
/// The shard decomposes its sources into 64-wide words and runs one pass of
/// a *single-source-word* kernel per word ([`scan_word_wide`], or the
/// fixed-grid [`scan_word_small`] when the whole problem fits 64
/// destinations). Every pass keeps its open-window set in one scalar `u64`
/// and its credited bits in a flat `credited[j]` column (one word per
/// destination), so multi-word problems (n > 64 tracked blocks — big pruned
/// CFGs) pay exactly the same branchless per-event cost as the single-word
/// case, once per owned word, instead of falling back to a general kernel
/// with per-credit bookkeeping. Re-reading the (pre-filtered, dense) event
/// list once per 64 sources is sequential and cheap; the per-credit work —
/// one `[reach, dist]` cell bump found by trailing-zeros extraction — is
/// identical to what the naive path performs.
struct Shard {
    /// First source owned by this shard.
    lo: usize,
    /// Sources owned (shard-local indices are `0..count`).
    count: usize,
    /// Total tracked blocks (row length of the output matrices).
    n: usize,
}

impl Shard {
    fn new(w0: usize, w1: usize, n: usize) -> Shard {
        let lo = (w0 * 64).min(n);
        let hi = (w1 * 64).min(n);
        Shard {
            lo,
            count: hi - lo,
            n,
        }
    }

    /// Scans `events` (pre-filtered `(dense source id, cumulative
    /// instructions)` pairs), accumulating into this shard's rows of the
    /// `reach` / `dist_sum` matrices (`count * n` elements each). The two
    /// counters live interleaved in one scratch `cells` array (`[reach,
    /// dist]` pairs) so each credit touches a single cache line; the pairs
    /// are split into the output matrices once, at the end.
    fn scan(self, events: &[(u32, u64)], reach: &mut [u64], dist_sum: &mut [u64]) {
        if self.count == 0 {
            return;
        }
        debug_assert_eq!(reach.len(), self.count * self.n);
        let mut cells = vec![[0u64; 2]; self.count * self.n];
        let mut w = 0;
        while w * 64 < self.count {
            let lo = self.lo + w * 64;
            let cnt = (self.count - w * 64).min(64);
            let word_cells = &mut cells[w * 64 * self.n..][..cnt * self.n];
            if self.n <= 64 {
                scan_word_small(lo, cnt, self.n, events, word_cells);
            } else {
                scan_word_wide(lo, cnt, self.n, events, word_cells);
            }
            w += 1;
        }
        for (k, &[r, d]) in cells.iter().enumerate() {
            reach[k] = r;
            dist_sum[k] = d;
        }
    }
}

/// One pass over the events for the source word `lo .. lo + count`
/// (`count <= 64`), with at most 64 destinations: every bitset in play is a
/// scalar word. Un-crediting a reopened window is a branchless bit-clear
/// sweep over the (at most 64-word) credited array, which vectorises — so
/// the per-credit loop carries no bookkeeping at all. All hot state lives
/// in fixed 64-wide arrays indexed through `& 63` masks, keeping every
/// index provably in range so no bounds checks survive in the loop.
fn scan_word_small(lo: usize, count: usize, n: usize, events: &[(u32, u64)], cells: &mut [[u64; 2]]) {
    let hi = lo + count;
    let mut open = 0u64;
    let mut credited = [0u64; 64];
    let mut win_start = [0u64; 64];
    let mut grid: Box<[[u64; 2]; 64 * 64]> = vec![[0u64; 2]; 64 * 64]
        .into_boxed_slice()
        .try_into()
        .expect("fixed grid size");
    for &(j, cum) in events {
        debug_assert!((j as usize) < n);
        let j = (j as usize) & 63;
        // Credit every open word source that has not yet seen `j`.
        // `credited[j] | newly == credited[j] | open` because credited
        // bits only ever belong to open sources.
        let cw = credited[j];
        let mut newly = open & !cw;
        credited[j] = cw | open;
        while newly != 0 {
            let i = newly.trailing_zeros() as usize & 63;
            newly &= newly - 1;
            let cell = &mut grid[(i << 6) | j];
            cell[0] += 1;
            cell[1] += cum - win_start[i];
        }
        // If this word owns `j` as a source, close its previous window
        // and open a fresh one: un-credit it everywhere.
        if (lo..hi).contains(&j) {
            let i = (j - lo) & 63;
            let bit = 1u64 << i;
            for cred in credited[..n].iter_mut() {
                *cred &= !bit;
            }
            win_start[i] = cum;
            open |= bit;
        }
    }
    for i in 0..count {
        for j in 0..n {
            cells[i * n + j] = grid[(i << 6) | j];
        }
    }
}

/// As [`scan_word_small`] for any number of destinations (n > 64): the
/// credited column grows to one `u64` per destination, the open set stays a
/// scalar word, and the un-credit sweep on window reopen is the same
/// branchless bit-clear, now over `n` words. The output cells are written
/// in place (no fixed grid), with `i < count` guaranteed because open bits
/// are only ever set for sources this word owns.
fn scan_word_wide(lo: usize, count: usize, n: usize, events: &[(u32, u64)], cells: &mut [[u64; 2]]) {
    let hi = lo + count;
    let mut open = 0u64;
    let mut credited = vec![0u64; n];
    let mut win_start = [0u64; 64];
    for &(j, cum) in events {
        let j = j as usize;
        let cw = credited[j];
        let mut newly = open & !cw;
        credited[j] = cw | open;
        while newly != 0 {
            let i = newly.trailing_zeros() as usize & 63;
            newly &= newly - 1;
            let cell = &mut cells[i * n + j];
            cell[0] += 1;
            cell[1] += cum - win_start[i];
        }
        if (lo..hi).contains(&j) {
            let i = (j - lo) & 63;
            let bit = 1u64 << i;
            for cred in credited.iter_mut() {
                *cred &= !bit;
            }
            win_start[i] = cum;
            open |= bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BasicBlocks;
    use specmt_isa::{ProgramBuilder, Reg};
    use specmt_trace::Trace;

    fn analyse(program: specmt_isa::Program) -> (ReachingAnalysis, BasicBlocks) {
        let bbs = BasicBlocks::of(&program);
        let trace = Trace::generate(program, 1_000_000).unwrap();
        let stream = BlockStream::new(&trace, &bbs);
        let all: Vec<BlockId> = (0..bbs.num_blocks() as BlockId).collect();
        (ReachingAnalysis::compute(&stream, &all), bbs)
    }

    fn counted_loop(n: i64) -> specmt_isa::Program {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, n);
        b.bind(top);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn loop_iteration_probability() {
        let (reach, bbs) = analyse(counted_loop(100));
        let body = bbs.block_of(specmt_isa::Pc(2));
        // 100 windows open; 99 reach the next iteration.
        assert_eq!(reach.occurrences(body), 100);
        assert!((reach.prob(body, body) - 0.99).abs() < 1e-12);
        assert_eq!(reach.avg_distance(body, body), 2.0);
    }

    #[test]
    fn loop_exit_rarely_reached_within_window() {
        let (reach, bbs) = analyse(counted_loop(100));
        let body = bbs.block_of(specmt_isa::Pc(2));
        let exit = bbs.block_of(specmt_isa::Pc(4));
        // A body window closes at the *next* body occurrence (the §3.1
        // endpoint constraint), so only the final iteration's window reaches
        // the loop exit: 1 out of 100.
        assert!((reach.prob(body, exit) - 0.01).abs() < 1e-12);
        // That single reaching window spans the last iteration: 2
        // instructions.
        assert_eq!(reach.avg_distance(body, exit), 2.0);
    }

    #[test]
    fn window_constraint_blocks_reach_after_source_repeat() {
        // Alternating blocks: a b a b ... The pair (a, halt) is only
        // reached by the final window.
        let (reach, bbs) = analyse(counted_loop(10));
        let entry = bbs.block_of(specmt_isa::Pc(0));
        let exit = bbs.block_of(specmt_isa::Pc(4));
        // Entry occurs once; reaches everything.
        assert_eq!(reach.occurrences(entry), 1);
        assert!((reach.prob(entry, exit) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn untracked_blocks_report_zero() {
        let program = counted_loop(5);
        let bbs = BasicBlocks::of(&program);
        let trace = Trace::generate(program, 10_000).unwrap();
        let stream = BlockStream::new(&trace, &bbs);
        let reach = ReachingAnalysis::compute(&stream, &[0]);
        assert_eq!(reach.prob(0, 1), 0.0);
        assert_eq!(reach.prob(1, 0), 0.0);
        assert_eq!(reach.avg_distance(0, 1), 0.0);
        assert_eq!(reach.occurrences(1), 0);
    }

    #[test]
    fn pairs_filters_by_prob_and_distance() {
        let (reach, bbs) = analyse(counted_loop(100));
        let body = bbs.block_of(specmt_isa::Pc(2));
        // With min_dist 1, the body self-pair qualifies at prob 0.99.
        let pairs = reach.pairs(0.95, 1.0);
        assert!(pairs
            .iter()
            .any(|p| p.sp_block == body && p.cqip_block == body));
        // With min_dist 3, the 2-instruction self-pair is filtered out.
        let pairs = reach.pairs(0.95, 3.0);
        assert!(!pairs
            .iter()
            .any(|p| p.sp_block == body && p.cqip_block == body));
    }

    /// The two implementations must agree exactly — counts, distances and
    /// occurrences are integer state, so equality is bit-level.
    fn assert_identical(a: &ReachingAnalysis, b: &ReachingAnalysis) {
        assert_eq!(a.tracked, b.tracked);
        assert_eq!(a.occurrences, b.occurrences);
        assert_eq!(a.reach, b.reach);
        assert_eq!(a.dist_sum, b.dist_sum);
    }

    #[test]
    fn word_parallel_matches_naive_on_loops() {
        for n in [1, 2, 7, 64, 200] {
            let program = counted_loop(n);
            let bbs = BasicBlocks::of(&program);
            let trace = Trace::generate(program, 1_000_000).unwrap();
            let stream = BlockStream::new(&trace, &bbs);
            let all: Vec<BlockId> = (0..bbs.num_blocks() as BlockId).collect();
            assert_identical(
                &ReachingAnalysis::compute(&stream, &all),
                &ReachingAnalysis::compute_naive(&stream, &all),
            );
        }
    }

    #[test]
    fn word_parallel_matches_naive_across_shard_boundaries() {
        // A chain of many small loops yields enough blocks to span several
        // 64-bit source words, exercising the per-word credit masks (the
        // sharded path itself needs >=192 sources and a long stream; the
        // multi-word single-shard kernel is the same code).
        let mut b = ProgramBuilder::new();
        for k in 0..70 {
            let top = b.fresh_label(&format!("top{k}"));
            b.li(Reg::R1, 0);
            b.li(Reg::R2, 3 + (k % 5));
            b.bind(top);
            b.addi(Reg::R1, Reg::R1, 1);
            b.blt(Reg::R1, Reg::R2, top);
        }
        b.halt();
        let program = b.build().unwrap();
        let bbs = BasicBlocks::of(&program);
        let trace = Trace::generate(program, 1_000_000).unwrap();
        let stream = BlockStream::new(&trace, &bbs);
        let all: Vec<BlockId> = (0..bbs.num_blocks() as BlockId).collect();
        assert!(all.len() > 128, "want multiple source words, got {}", all.len());
        assert_identical(
            &ReachingAnalysis::compute(&stream, &all),
            &ReachingAnalysis::compute_naive(&stream, &all),
        );
        // Tracking a sparse subset (every third block) must also agree.
        let subset: Vec<BlockId> = all.iter().copied().step_by(3).collect();
        assert_identical(
            &ReachingAnalysis::compute(&stream, &subset),
            &ReachingAnalysis::compute_naive(&stream, &subset),
        );
    }

    #[test]
    fn multi_word_fast_path_matches_naive_at_word_boundaries() {
        // A chain of small loops yields > 200 blocks; tracking exactly
        // n = 63/64/65/200 of them straddles the one-word/multi-word
        // boundary of the per-word kernels (63/64 run the fixed-grid
        // kernel, 65/200 the wide-destination kernel across 2/4 source
        // words).
        let mut b = ProgramBuilder::new();
        for k in 0..110 {
            let top = b.fresh_label(&format!("top{k}"));
            b.li(Reg::R1, 0);
            b.li(Reg::R2, 3 + (k % 5));
            b.bind(top);
            b.addi(Reg::R1, Reg::R1, 1);
            b.blt(Reg::R1, Reg::R2, top);
        }
        b.halt();
        let program = b.build().unwrap();
        let bbs = BasicBlocks::of(&program);
        let trace = Trace::generate(program, 1_000_000).unwrap();
        let stream = BlockStream::new(&trace, &bbs);
        let all: Vec<BlockId> = (0..bbs.num_blocks() as BlockId).collect();
        assert!(all.len() >= 200, "want >= 200 blocks, got {}", all.len());
        for n in [63usize, 64, 65, 200] {
            let subset: Vec<BlockId> = all[..n].to_vec();
            assert_identical(
                &ReachingAnalysis::compute(&stream, &subset),
                &ReachingAnalysis::compute_naive(&stream, &subset),
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate tracked block")]
    fn duplicate_tracked_blocks_panic() {
        let program = counted_loop(3);
        let bbs = BasicBlocks::of(&program);
        let trace = Trace::generate(program, 10_000).unwrap();
        let stream = BlockStream::new(&trace, &bbs);
        let _ = ReachingAnalysis::compute(&stream, &[0, 0]);
    }
}
