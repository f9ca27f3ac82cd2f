//! Per-thread-unit L1 data cache timing model.

use crate::CacheConfig;

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
/// The hot paths are branch-light: power-of-two geometries (the default
/// 32 KiB / 2-way / 32 B one included) index with shifts and masks, a
/// self-validating MRU memo short-circuits consecutive same-block
/// accesses, tag and stamp words are stored interleaved (and compacted to
/// 32 bits when [`L1Cache::new_bounded`] can prove they fit), and store
/// touches can be applied as a batched run ([`L1Cache::touch_run`])
/// instead of one call per access.
///
/// # Examples
///
/// ```
/// use specmt_sim::{CacheConfig, L1Cache};
///
/// let mut c = L1Cache::new(CacheConfig::default());
/// let miss = c.access(0x1000, 100);
/// assert_eq!(miss, 108); // 8-cycle miss
/// let hit = c.access(0x1008, 200); // same 32-byte block
/// assert_eq!(hit, 203); // 3-cycle hit
/// ```
#[derive(Debug, Clone)]
pub struct L1Cache {
    cfg: CacheConfig,
    sets: usize,
    /// `addr >> block_shift` when the block size is a power of two.
    block_shift: Option<u32>,
    /// `block & set_mask` when the set count is a power of two.
    set_mask: Option<u64>,
    store: Store,
    stamp: u64,
    /// Next-free time per MSHR.
    mshr_free: Vec<u64>,
    hits: u64,
    misses: u64,
}

/// Index of the smallest element (first wins ties); 0 for an empty slice.
pub(crate) fn min_index(times: &[u64]) -> usize {
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

impl L1Cache {
    /// Creates an empty (all-invalid) cache with full-width (`u64`) tags.
    ///
    /// Degenerate geometries (zero ways, blocks or MSHRs) are clamped to one
    /// so the timing model stays total; [`SimConfig::validate`] rejects them
    /// up front for simulation runs.
    ///
    /// [`SimConfig::validate`]: crate::SimConfig::validate
    pub fn new(cfg: CacheConfig) -> L1Cache {
        L1Cache::build(cfg, false)
    }

    /// As [`L1Cache::new`], but selects the compact 32-bit tag store when
    /// the caller proves the bounds fit: every block index this cache will
    /// ever see is at most `max_block`, and at most `max_accesses` calls to
    /// [`access`](L1Cache::access)/[`touch`](L1Cache::touch) will be made.
    /// Within those bounds the two stores are indistinguishable (same hits,
    /// misses, LRU victims and timing); outside them the wide store is
    /// chosen automatically.
    pub fn new_bounded(cfg: CacheConfig, max_block: u64, max_accesses: u64) -> L1Cache {
        let compact = max_block < u64::from(u32::MAX) && max_accesses < u64::from(u32::MAX);
        L1Cache::build(cfg, compact)
    }

    fn build(cfg: CacheConfig, compact: bool) -> L1Cache {
        let mut cfg = cfg;
        cfg.ways = cfg.ways.max(1);
        cfg.block_bytes = cfg.block_bytes.max(1);
        cfg.mshrs = cfg.mshrs.max(1);
        let sets = (cfg.size_bytes / (cfg.ways * cfg.block_bytes)).max(1);
        let lines = sets * cfg.ways;
        L1Cache {
            sets,
            block_shift: cfg
                .block_bytes
                .is_power_of_two()
                .then(|| cfg.block_bytes.trailing_zeros()),
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            store: if compact {
                Store::Compact(TagStore::new(lines))
            } else {
                Store::Wide(TagStore::new(lines))
            },
            stamp: 0,
            mshr_free: vec![0; cfg.mshrs],
            hits: 0,
            misses: 0,
            cfg,
        }
    }

    #[inline]
    fn block_of(&self, addr: u64) -> u64 {
        match self.block_shift {
            Some(s) => addr >> s,
            None => addr / self.cfg.block_bytes as u64,
        }
    }

    #[inline]
    fn set_of(&self, block: u64) -> usize {
        match self.set_mask {
            Some(m) => (block & m) as usize,
            None => (block % self.sets as u64) as usize,
        }
    }

    /// Probes (and on miss installs) `block`; returns whether it hit.
    #[inline]
    fn probe(&mut self, block: u64) -> bool {
        self.stamp += 1;
        let base = self.set_of(block) * self.cfg.ways;
        match &mut self.store {
            Store::Wide(s) => s.probe(block, base, self.cfg.ways, self.stamp),
            Store::Compact(s) => s.probe(block, base, self.cfg.ways, self.stamp),
        }
    }

    /// Performs a timing access to `addr` starting at cycle `at`; returns
    /// the cycle the data is available.
    pub fn access(&mut self, addr: u64, at: u64) -> u64 {
        let block = self.block_of(addr);
        if self.probe(block) {
            self.hits += 1;
            return at + self.cfg.hit_latency;
        }
        // Miss: the block was installed over the LRU way; take the
        // earliest-free MSHR, waiting for it if all are busy.
        self.misses += 1;
        let slot = min_index(&self.mshr_free);
        let start = at.max(self.mshr_free[slot]);
        let done = start + self.cfg.miss_latency;
        self.mshr_free[slot] = done;
        done
    }

    /// Installs the block containing `addr` without timing (used for store
    /// allocation).
    pub fn touch(&mut self, addr: u64) {
        let block = self.block_of(addr);
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
            let block = self.block_of(addr);
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

    fn tiny() -> L1Cache {
        // 2 sets x 2 ways x 32B = 128 bytes.
        L1Cache::new(CacheConfig {
            size_bytes: 128,
            ways: 2,
            block_bytes: 32,
            hit_latency: 3,
            miss_latency: 8,
            mshrs: 2,
        })
    }

    #[test]
    fn spatial_locality_hits_within_block() {
        let mut c = tiny();
        assert_eq!(c.access(0, 0), 8);
        for off in (8..32).step_by(8) {
            assert_eq!(c.access(off, 10), 13);
        }
        assert_eq!(c.stats(), (3, 1));
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut c = tiny();
        // Three blocks mapping to set 0 (block % 2 == 0): 0, 128, 256.
        c.access(0, 0);
        c.access(128, 10);
        c.access(0, 20); // refresh block 0
        c.access(256, 30); // evicts 128
        assert_eq!(c.access(0, 40), 43); // still resident
        assert_eq!(c.access(128, 50), 58); // was evicted
    }

    #[test]
    fn mshr_contention_serialises_misses() {
        let mut c = tiny();
        // Three simultaneous misses with 2 MSHRs: the third waits.
        let a = c.access(0, 0);
        let b = c.access(32, 0); // other set, also miss
        let d = c.access(64, 0); // set 0 again, third miss
        assert_eq!(a, 8);
        assert_eq!(b, 8);
        assert_eq!(d, 16); // waited for an MSHR freed at 8
    }

    #[test]
    fn touch_installs_for_later_hits() {
        let mut c = tiny();
        c.touch(0x40);
        assert_eq!(c.access(0x40, 100), 103);
        assert_eq!(c.stats(), (1, 0));
    }

    #[test]
    fn paper_geometry() {
        let c = L1Cache::new(CacheConfig::default());
        assert_eq!(c.sets, 512);
        match c.store {
            Store::Wide(s) => assert_eq!(s.lines.len(), 1024),
            Store::Compact(_) => panic!("default store is wide"),
        }
    }

    #[test]
    fn non_pow2_geometry_takes_slow_indexing() {
        // 3 sets x 1 way x 24B: neither block size nor set count is a
        // power of two, so the division/modulo paths are exercised.
        let mut c = L1Cache::new(CacheConfig {
            size_bytes: 72,
            ways: 1,
            block_bytes: 24,
            hit_latency: 3,
            miss_latency: 8,
            mshrs: 1,
        });
        assert!(c.block_shift.is_none());
        assert!(c.set_mask.is_none());
        assert_eq!(c.access(0, 0), 8);
        assert_eq!(c.access(23, 10), 13); // same 24B block
        assert_eq!(c.access(24, 20), 28); // next block, other set
        assert_eq!(c.stats(), (1, 2));
    }

    /// The batched run must leave the cache in exactly the state the
    /// one-call-per-touch sequence would (hits/misses and LRU behaviour).
    #[test]
    fn touch_run_matches_sequential_touches() {
        let addrs: Vec<u64> = vec![0, 8, 8, 64, 0, 128, 128, 128, 256, 24];
        let mut seq = tiny();
        for &a in &addrs {
            seq.touch(a);
        }
        let mut batched = tiny();
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
        let mut c = tiny();
        c.access(0, 0); // install block 0 (memo now block 0)
        c.access(128, 10); // set 0, other way
        c.access(256, 20); // set 0: evicts block 0 (LRU)
        assert_eq!(c.access(0, 30), 38, "evicted block must miss");
    }

    /// The compact (u32) store is indistinguishable from the wide one
    /// inside its proven bounds: identical timing and statistics over a
    /// pseudo-random access/touch mix.
    #[test]
    fn compact_store_matches_wide() {
        let cfg = CacheConfig {
            size_bytes: 512,
            ways: 2,
            block_bytes: 32,
            hit_latency: 3,
            miss_latency: 8,
            mshrs: 2,
        };
        let mut wide = L1Cache::new(cfg);
        let mut compact = L1Cache::new_bounded(cfg, 1 << 20, 100_000);
        assert!(matches!(compact.store, Store::Compact(_)));
        let mut x = 0xabcd_1234_u64;
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % (1 << 14);
            if x & 3 == 0 {
                wide.touch(addr);
                compact.touch(addr);
            } else {
                let at = i * 2;
                assert_eq!(wide.access(addr, at), compact.access(addr, at), "step {i}");
            }
        }
        assert_eq!(wide.stats(), compact.stats());
    }

    /// Bounds that do not fit 32 bits fall back to the wide store.
    #[test]
    fn oversized_bounds_fall_back_to_wide() {
        let c = L1Cache::new_bounded(CacheConfig::default(), u64::from(u32::MAX), 1);
        assert!(matches!(c.store, Store::Wide(_)));
        let c = L1Cache::new_bounded(CacheConfig::default(), 1, u64::from(u32::MAX));
        assert!(matches!(c.store, Store::Wide(_)));
    }
}
