//! Per-thread-unit L1 data cache timing model.

use crate::config::{
    L1_BLOCK_BYTES, L1_HIT_LATENCY, L1_MISS_LATENCY, L1_MSHRS, L1_SIZE_BYTES, L1_WAYS,
};

/// Sets in the §4.1 geometry (512), a power of two: a set index is the low
/// bits of the block number.
const SETS: usize = L1_SIZE_BYTES / (L1_WAYS * L1_BLOCK_BYTES);
/// `addr >> BLOCK_SHIFT` is the block number.
const BLOCK_SHIFT: u32 = L1_BLOCK_BYTES.trailing_zeros();

/// Tag-word abstraction: the tag store keeps `(tag, stamp)` line pairs in
/// either full-width `u64` or compact `u32` form. The compact form halves
/// the model's memory footprint — the difference between sixteen thread
/// units' tag state thrashing the host cache or staying resident — and is
/// chosen only when the engine can prove every block address and stamp
/// value fits (see [`L1Cache::new_bounded`]), so both forms compute
/// identical hits, misses and LRU victims.
trait TagWord: Copy + PartialEq + Ord {
    /// The invalid-line marker (`MAX`; also the empty MRU-memo sentinel).
    const INVALID: Self;
    fn of(v: u64) -> Self;
}

impl TagWord for u64 {
    const INVALID: u64 = u64::MAX;
    #[inline]
    fn of(v: u64) -> u64 {
        v
    }
}

impl TagWord for u32 {
    const INVALID: u32 = u32::MAX;
    #[inline]
    fn of(v: u64) -> u32 {
        v as u32
    }
}

/// Interleaved `(tag, stamp)` line storage: one set's ways sit in one
/// contiguous run, so a probe touches a single cache line of host memory.
#[derive(Debug, Clone)]
struct TagStore<T> {
    lines: Vec<(T, T)>,
    /// MRU memo: the block and line of the most recent hit or install.
    /// Validated against the line's tag on use, so eviction can never make
    /// it lie; `INVALID` = empty.
    last_block: T,
    last_line: usize,
}

impl<T: TagWord> TagStore<T> {
    fn new(lines: usize) -> TagStore<T> {
        TagStore {
            lines: vec![(T::INVALID, T::of(0)); lines],
            last_block: T::INVALID,
            last_line: 0,
        }
    }

    /// Probes for `block` in the set at `base`, re-stamping on hit and
    /// installing over the LRU way on miss. Returns whether it hit.
    #[inline]
    fn probe(&mut self, block: u64, base: usize, ways: usize, stamp: u64) -> bool {
        let b = T::of(block);
        let st = T::of(stamp);
        // MRU memo: the tag check re-validates it, so an eviction between
        // accesses simply falls through to the full set scan.
        if b == self.last_block && b != T::INVALID && self.lines[self.last_line].0 == b {
            self.lines[self.last_line].1 = st;
            return true;
        }
        let set = &mut self.lines[base..base + ways];
        // One pass both matches tags and tracks the LRU way (first-wins
        // ties, exactly as a separate min-scan over the stamps would).
        let mut lru = 0;
        for way in 0..ways {
            if set[way].0 == b {
                set[way].1 = st;
                self.last_block = b;
                self.last_line = base + way;
                return true;
            }
            if set[way].1 < set[lru].1 {
                lru = way;
            }
        }
        set[lru] = (b, st);
        self.last_block = b;
        self.last_line = base + lru;
        false
    }
}

#[derive(Debug, Clone)]
enum Store {
    Wide(TagStore<u64>),
    Compact(TagStore<u32>),
}

/// A set-associative, non-blocking L1 data cache timing model.
///
/// Tracks tags with LRU replacement and models miss-level parallelism with a
/// fixed number of MSHRs: a miss that finds all MSHRs busy waits for the
/// earliest one to free. Only timing is modelled — data comes from the
/// oracle trace.
///
/// The hot paths are branch-light: the power-of-two geometry indexes with
/// shifts and masks, a self-validating MRU memo short-circuits consecutive
/// same-block accesses, tag and stamp words are stored interleaved (and
/// compacted to 32 bits when [`L1Cache::new_bounded`] can prove they fit),
/// and store touches can be applied as a batched run
/// ([`L1Cache::touch_run`]) instead of one call per access.
///
/// # Examples
///
/// ```
/// use specmt_sim::L1Cache;
///
/// let mut c = L1Cache::new();
/// let miss = c.access(0x1000, 100);
/// assert_eq!(miss, 108); // 8-cycle miss
/// let hit = c.access(0x1008, 200); // same 32-byte block
/// assert_eq!(hit, 203); // 3-cycle hit
/// ```
#[derive(Debug, Clone)]
pub struct L1Cache {
    store: Store,
    stamp: u64,
    /// Next-free time per MSHR.
    mshr_free: [u64; L1_MSHRS],
    hits: u64,
    misses: u64,
}

/// Index of the smallest element (first wins ties); 0 for an empty slice.
fn min_index(times: &[u64]) -> usize {
    // Branchless select (lowered to cmov): the comparison outcome is
    // data-dependent and mispredicts badly as a branch in the hot loops.
    // Strict `<` keeps the earliest index on ties.
    let mut best = 0;
    let mut bv = u64::MAX;
    for (i, &v) in times.iter().enumerate() {
        let lt = v < bv;
        best = if lt { i } else { best };
        bv = if lt { v } else { bv };
    }
    best
}

impl Default for L1Cache {
    fn default() -> L1Cache {
        L1Cache::new()
    }
}

impl L1Cache {
    /// Creates an empty (all-invalid) cache with full-width (`u64`) tags.
    pub fn new() -> L1Cache {
        L1Cache::build(false)
    }

    /// As [`L1Cache::new`], but selects the compact 32-bit tag store when
    /// the caller proves the bounds fit: every block index this cache will
    /// ever see is at most `max_block`, and at most `max_accesses` calls to
    /// [`access`](L1Cache::access)/[`touch`](L1Cache::touch) will be made.
    /// Within those bounds the two stores are indistinguishable (same hits,
    /// misses, LRU victims and timing); outside them the wide store is
    /// chosen automatically.
    pub fn new_bounded(max_block: u64, max_accesses: u64) -> L1Cache {
        let compact = max_block < u64::from(u32::MAX) && max_accesses < u64::from(u32::MAX);
        L1Cache::build(compact)
    }

    fn build(compact: bool) -> L1Cache {
        let lines = SETS * L1_WAYS;
        L1Cache {
            store: if compact {
                Store::Compact(TagStore::new(lines))
            } else {
                Store::Wide(TagStore::new(lines))
            },
            stamp: 0,
            mshr_free: [0; L1_MSHRS],
            hits: 0,
            misses: 0,
        }
    }

    /// The block number of `addr`.
    #[inline]
    fn block_of(addr: u64) -> u64 {
        addr >> BLOCK_SHIFT
    }

    /// Probes (and on miss installs) `block`; returns whether it hit.
    #[inline]
    fn probe(&mut self, block: u64) -> bool {
        self.stamp += 1;
        let base = (block & (SETS as u64 - 1)) as usize * L1_WAYS;
        match &mut self.store {
            Store::Wide(s) => s.probe(block, base, L1_WAYS, self.stamp),
            Store::Compact(s) => s.probe(block, base, L1_WAYS, self.stamp),
        }
    }

    /// Performs a timing access to `addr` starting at cycle `at`; returns
    /// the cycle the data is available.
    pub fn access(&mut self, addr: u64, at: u64) -> u64 {
        let block = L1Cache::block_of(addr);
        if self.probe(block) {
            self.hits += 1;
            return at + L1_HIT_LATENCY;
        }
        // Miss: the block was installed over the LRU way; take the
        // earliest-free MSHR, waiting for it if all are busy.
        self.misses += 1;
        let slot = min_index(&self.mshr_free);
        let start = at.max(self.mshr_free[slot]);
        let done = start + L1_MISS_LATENCY;
        self.mshr_free[slot] = done;
        done
    }

    /// Installs the block containing `addr` without timing (used for store
    /// allocation).
    pub fn touch(&mut self, addr: u64) {
        let block = L1Cache::block_of(addr);
        self.probe(block);
    }

    /// Applies a run of buffered [`touch`](L1Cache::touch)es in order and
    /// clears the buffer.
    ///
    /// Consecutive touches to the same block are coalesced: the repeat
    /// would only re-stamp the line that is already the set's most recent,
    /// and touches carry no timing or statistics, so the observable LRU
    /// order (the *relative* order of line stamps) is unchanged.
    pub fn touch_run(&mut self, run: &mut Vec<u64>) {
        let mut prev = u64::MAX; // sentinel: paired with `first` below
        let mut first = true;
        for addr in run.drain(..) {
            let block = L1Cache::block_of(addr);
            if !first && block == prev {
                continue;
            }
            self.probe(block);
            prev = block;
            first = false;
        }
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes between addresses that map to the same set: 512 sets of
    /// 32-byte blocks.
    const SET_STRIDE: u64 = (SETS * L1_BLOCK_BYTES) as u64;

    #[test]
    fn spatial_locality_hits_within_block() {
        let mut c = L1Cache::new();
        assert_eq!(c.access(0, 0), 8);
        for off in (8..32).step_by(8) {
            assert_eq!(c.access(off, 10), 13);
        }
        assert_eq!(c.stats(), (3, 1));
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut c = L1Cache::new();
        // Three blocks sharing set 0 of the 2-way cache.
        c.access(0, 0);
        c.access(SET_STRIDE, 10);
        c.access(0, 20); // refresh block 0
        c.access(2 * SET_STRIDE, 30); // evicts SET_STRIDE
        assert_eq!(c.access(0, 40), 43); // still resident
        assert_eq!(c.access(SET_STRIDE, 50), 58); // was evicted
    }

    #[test]
    fn mshr_contention_serialises_misses() {
        let mut c = L1Cache::new();
        // Five simultaneous misses with 4 MSHRs: the fifth waits.
        for i in 0..4 {
            assert_eq!(c.access(i * 32, 0), 8);
        }
        assert_eq!(c.access(4 * 32, 0), 16); // waited for an MSHR freed at 8
    }

    #[test]
    fn touch_installs_for_later_hits() {
        let mut c = L1Cache::new();
        c.touch(0x40);
        assert_eq!(c.access(0x40, 100), 103);
        assert_eq!(c.stats(), (1, 0));
    }

    #[test]
    fn paper_geometry() {
        assert_eq!((SETS, BLOCK_SHIFT, SET_STRIDE), (512, 5, 16 * 1024));
        let c = L1Cache::new();
        match c.store {
            Store::Wide(s) => assert_eq!(s.lines.len(), 1024),
            Store::Compact(_) => panic!("default store is wide"),
        }
    }

    /// The batched run must leave the cache in exactly the state the
    /// one-call-per-touch sequence would (hits/misses and LRU behaviour).
    #[test]
    fn touch_run_matches_sequential_touches() {
        let s = SET_STRIDE;
        let addrs: Vec<u64> = vec![0, 8, 8, s, 0, 2 * s, 2 * s, 2 * s, 3 * s, 24];
        let mut seq = L1Cache::new();
        for &a in &addrs {
            seq.touch(a);
        }
        let mut batched = L1Cache::new();
        let mut run = addrs.clone();
        batched.touch_run(&mut run);
        assert!(run.is_empty());
        // Same residency: probe every block both caches ever saw.
        for &a in &addrs {
            let s = seq.access(a, 1000);
            let b = batched.access(a, 1000);
            assert_eq!(s, b, "addr {a}");
        }
        assert_eq!(seq.stats(), batched.stats());
    }

    /// The MRU memo never reports a hit on an evicted block.
    #[test]
    fn mru_memo_survives_eviction() {
        let mut c = L1Cache::new();
        c.access(0, 0); // install block 0 (memo now block 0)
        c.access(SET_STRIDE, 10); // set 0, other way
        c.access(2 * SET_STRIDE, 20); // set 0: evicts block 0 (LRU)
        assert_eq!(c.access(0, 30), 38, "evicted block must miss");
    }

    /// The compact (u32) store is indistinguishable from the wide one
    /// inside its proven bounds: identical timing and statistics over a
    /// pseudo-random access/touch mix spanning four times the capacity.
    #[test]
    fn compact_store_matches_wide() {
        let mut wide = L1Cache::new();
        let mut compact = L1Cache::new_bounded(1 << 20, 100_000);
        assert!(matches!(compact.store, Store::Compact(_)));
        let mut x = 0xabcd_1234_u64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % (4 * L1_SIZE_BYTES as u64);
            if x & 3 == 0 {
                wide.touch(addr);
                compact.touch(addr);
            } else {
                let at = i * 2;
                assert_eq!(wide.access(addr, at), compact.access(addr, at), "step {i}");
            }
        }
        let (hits, misses) = wide.stats();
        assert!(hits > 1000 && misses > 1000, "{hits} hits, {misses} misses");
        assert_eq!(wide.stats(), compact.stats());
    }

    /// Bounds that do not fit 32 bits fall back to the wide store.
    #[test]
    fn oversized_bounds_fall_back_to_wide() {
        let c = L1Cache::new_bounded(u64::from(u32::MAX), 1);
        assert!(matches!(c.store, Store::Wide(_)));
        let c = L1Cache::new_bounded(1, u64::from(u32::MAX));
        assert!(matches!(c.store, Store::Wide(_)));
    }
}
