//! Thread live-in value predictors.

use std::fmt;

/// Identifies one predicted live-in value, exactly as the paper indexes its
/// 16 KB tables: "prediction tables are indexed by hashing 3 values, the
/// program counter of both the spawning point and the control
/// quasi-independent point and the identifier of the register being
/// predicted" (§4.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredKey {
    /// Program counter of the spawning point.
    pub sp_pc: u32,
    /// Program counter of the control quasi-independent point.
    pub cqip_pc: u32,
    /// Architectural register index of the live-in.
    pub reg: u8,
}

impl PredKey {
    /// Mixes the three components with a murmur-style finalizer.
    ///
    /// The double multiply-xorshift matters: a single multiply only
    /// propagates bit differences upward, so components packed into high
    /// bits would never reach the low bits that index prediction tables.
    #[inline]
    pub fn hash64(self) -> u64 {
        let mut x = (self.sp_pc as u64) ^ ((self.cqip_pc as u64) << 20) ^ ((self.reg as u64) << 40);
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        x
    }
}

/// A trainable predictor for thread live-in register values.
///
/// Implementations are deterministic: the same sequence of
/// [`predict`](ValuePredictor::predict)/[`train`](ValuePredictor::train)
/// calls produces the same predictions.
pub trait ValuePredictor: fmt::Debug {
    /// Predicts the next value for `key`.
    fn predict(&mut self, key: PredKey) -> u64;
    /// Trains the predictor with the actual observed value.
    fn train(&mut self, key: PredKey, actual: u64);
    /// Predicts the value for `key`, then trains with `actual`; returns
    /// the prediction. Equivalent to [`predict`](ValuePredictor::predict)
    /// followed by [`train`](ValuePredictor::train), which is how a
    /// simulator consults a predictor once the value is known;
    /// implementations override it to index their tables once.
    fn predict_and_train(&mut self, key: PredKey, actual: u64) -> u64 {
        let guess = self.predict(key);
        self.train(key, actual);
        guess
    }
    /// A short human-readable name.
    fn name(&self) -> &'static str;
}

/// Which value predictor (or idealisation) a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValuePredictorKind {
    /// Oracle: every live-in is predicted correctly (the paper's baseline
    /// idealisation).
    Perfect,
    /// Predict the last observed value (Dynamic Multithreaded Processor
    /// style).
    LastValue,
    /// Last value plus learned stride — the paper's best realistic
    /// predictor.
    Stride,
    /// Order-2 finite context method (context-based) predictor.
    Fcm,
    /// Tournament hybrid of stride and FCM with a per-key chooser — the
    /// natural next step the paper's value-prediction study (its reference 14) points
    /// to; kept as an ablation beyond the paper.
    Hybrid,
    /// No prediction: every live-in waits for its producer.
    None,
}

impl ValuePredictorKind {
    /// Instantiates the predictor with the given storage budget, or `None`
    /// for the [`Perfect`](ValuePredictorKind::Perfect) /
    /// [`None`](ValuePredictorKind::None) modes, which need no table.
    pub fn build(self, budget_bytes: usize) -> Option<Box<dyn ValuePredictor>> {
        match self {
            ValuePredictorKind::Perfect | ValuePredictorKind::None => None,
            ValuePredictorKind::LastValue => {
                Some(Box::new(LastValuePredictor::with_budget(budget_bytes)))
            }
            ValuePredictorKind::Stride => {
                Some(Box::new(StridePredictor::with_budget(budget_bytes)))
            }
            ValuePredictorKind::Fcm => Some(Box::new(FcmPredictor::with_budget(budget_bytes))),
            ValuePredictorKind::Hybrid => {
                Some(Box::new(HybridPredictor::with_budget(budget_bytes)))
            }
        }
    }
}

impl fmt::Display for ValuePredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValuePredictorKind::Perfect => "perfect",
            ValuePredictorKind::LastValue => "last-value",
            ValuePredictorKind::Stride => "stride",
            ValuePredictorKind::Fcm => "context (FCM)",
            ValuePredictorKind::Hybrid => "hybrid (stride/FCM)",
            ValuePredictorKind::None => "none",
        };
        f.write_str(s)
    }
}

fn entries_for(budget_bytes: usize, entry_bytes: usize) -> usize {
    (budget_bytes / entry_bytes).next_power_of_two().max(2) / 2 * 2
}

/// Predicts each live-in to repeat its last observed value.
///
/// Direct-mapped, untagged (aliasing is part of the model, as in real
/// hardware tables).
#[derive(Debug, Clone)]
pub struct LastValuePredictor {
    table: Vec<u64>,
    mask: u64,
}

impl LastValuePredictor {
    /// Creates a predictor using roughly `budget_bytes` of table storage
    /// (8 bytes per entry, rounded down to a power of two).
    pub fn with_budget(budget_bytes: usize) -> LastValuePredictor {
        let n = entries_for(budget_bytes, 8);
        LastValuePredictor {
            table: vec![0; n],
            mask: n as u64 - 1,
        }
    }

    #[inline]
    fn idx(&self, key: PredKey) -> usize {
        (key.hash64() & self.mask) as usize
    }
}

impl ValuePredictor for LastValuePredictor {
    fn predict(&mut self, key: PredKey) -> u64 {
        self.table[self.idx(key)]
    }

    fn train(&mut self, key: PredKey, actual: u64) {
        let i = self.idx(key);
        self.table[i] = actual;
    }

    fn predict_and_train(&mut self, key: PredKey, actual: u64) -> u64 {
        let i = self.idx(key);
        std::mem::replace(&mut self.table[i], actual)
    }

    fn name(&self) -> &'static str {
        "last-value"
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    last: u64,
    stride: i64,
    confidence: u8,
}

/// The classic two-delta stride predictor ([Gabbay & Mendelson 96],
/// [Sazeides et al. 96]): predicts `last + stride`, replacing the stride
/// only after seeing the same new delta twice.
///
/// Entry size is 16 bytes, so the paper's 16 KB budget yields 1024 entries.
#[derive(Debug, Clone)]
pub struct StridePredictor {
    table: Vec<StrideEntry>,
    mask: u64,
}

impl StridePredictor {
    /// Creates a predictor using roughly `budget_bytes` of table storage.
    pub fn with_budget(budget_bytes: usize) -> StridePredictor {
        let n = entries_for(budget_bytes, 16);
        StridePredictor {
            table: vec![StrideEntry::default(); n],
            mask: n as u64 - 1,
        }
    }

    #[inline]
    fn idx(&self, key: PredKey) -> usize {
        (key.hash64() & self.mask) as usize
    }

    /// The two-delta update of one entry with the observed value.
    #[inline]
    fn update(e: &mut StrideEntry, actual: u64) {
        let delta = actual.wrapping_sub(e.last) as i64;
        if delta == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else if e.confidence > 0 {
            e.confidence -= 1;
        } else {
            e.stride = delta;
        }
        e.last = actual;
    }
}

impl ValuePredictor for StridePredictor {
    fn predict(&mut self, key: PredKey) -> u64 {
        let e = &self.table[self.idx(key)];
        e.last.wrapping_add(e.stride as u64)
    }

    fn train(&mut self, key: PredKey, actual: u64) {
        let i = self.idx(key);
        StridePredictor::update(&mut self.table[i], actual);
    }

    fn predict_and_train(&mut self, key: PredKey, actual: u64) -> u64 {
        let i = self.idx(key);
        let e = &mut self.table[i];
        let guess = e.last.wrapping_add(e.stride as u64);
        StridePredictor::update(e, actual);
        guess
    }

    fn name(&self) -> &'static str {
        "stride"
    }
}

/// An order-2 finite-context-method (FCM) value predictor
/// ([Sazeides & Smith 97]): a first-level table maps the key to a hash of
/// its recent value history; a second-level table maps that context to the
/// predicted value.
///
/// The budget is split evenly between the two levels.
#[derive(Debug, Clone)]
pub struct FcmPredictor {
    /// Level 1: per-key context (folded hash of the last values).
    contexts: Vec<u64>,
    l1_mask: u64,
    /// Level 2: context -> predicted value.
    values: Vec<u64>,
    l2_mask: u64,
}

impl FcmPredictor {
    /// Creates a predictor using roughly `budget_bytes` of table storage.
    pub fn with_budget(budget_bytes: usize) -> FcmPredictor {
        let l1 = entries_for(budget_bytes / 2, 8);
        let l2 = entries_for(budget_bytes / 2, 8);
        FcmPredictor {
            contexts: vec![0; l1],
            l1_mask: l1 as u64 - 1,
            values: vec![0; l2],
            l2_mask: l2 as u64 - 1,
        }
    }

    #[inline]
    fn l1_idx(&self, key: PredKey) -> usize {
        (key.hash64() & self.l1_mask) as usize
    }

    /// Shifts `value` into the order-2 context: the context keeps 32-bit
    /// digests of the last two values, so identical value *pairs* map to
    /// identical contexts (unbounded folding would never revisit one).
    #[inline]
    fn fold(context: u64, value: u64) -> u64 {
        let digest = value.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        (context << 32) | digest
    }

    #[inline]
    fn l2_idx(&self, context: u64) -> usize {
        ((context.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) >> 24) & self.l2_mask) as usize
    }
}

impl ValuePredictor for FcmPredictor {
    fn predict(&mut self, key: PredKey) -> u64 {
        let ctx = self.contexts[self.l1_idx(key)];
        self.values[self.l2_idx(ctx)]
    }

    fn train(&mut self, key: PredKey, actual: u64) {
        self.predict_and_train(key, actual);
    }

    fn predict_and_train(&mut self, key: PredKey, actual: u64) -> u64 {
        let i = self.l1_idx(key);
        let ctx = self.contexts[i];
        let l2 = self.l2_idx(ctx);
        self.contexts[i] = FcmPredictor::fold(ctx, actual);
        std::mem::replace(&mut self.values[l2], actual)
    }

    fn name(&self) -> &'static str {
        "fcm"
    }
}

/// A tournament hybrid: a stride and an FCM component share the budget and
/// a table of 2-bit saturating choosers picks which component answers each
/// key, trained towards whichever component was right.
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    stride: StridePredictor,
    fcm: FcmPredictor,
    choosers: Vec<u8>,
    mask: u64,
}

impl HybridPredictor {
    /// Creates a hybrid splitting `budget_bytes` between the components
    /// (the chooser table is charged against the budget too).
    pub fn with_budget(budget_bytes: usize) -> HybridPredictor {
        let chooser_budget = budget_bytes / 8;
        let component = (budget_bytes - chooser_budget) / 2;
        let n = entries_for(chooser_budget.max(2), 1);
        HybridPredictor {
            stride: StridePredictor::with_budget(component),
            fcm: FcmPredictor::with_budget(component),
            choosers: vec![2; n], // weakly prefer stride (the paper's best)
            mask: n as u64 - 1,
        }
    }

    #[inline]
    fn chooser_idx(&self, key: PredKey) -> usize {
        (key.hash64() & self.mask) as usize
    }
}

impl ValuePredictor for HybridPredictor {
    fn predict(&mut self, key: PredKey) -> u64 {
        if self.choosers[self.chooser_idx(key)] >= 2 {
            self.stride.predict(key)
        } else {
            self.fcm.predict(key)
        }
    }

    fn train(&mut self, key: PredKey, actual: u64) {
        let s_guess = self.stride.predict(key);
        let f_guess = self.fcm.predict(key);
        let idx = self.chooser_idx(key);
        let c = &mut self.choosers[idx];
        match (s_guess == actual, f_guess == actual) {
            (true, false) => *c = (*c + 1).min(3),
            (false, true) => *c = c.saturating_sub(1),
            _ => {}
        }
        self.stride.train(key, actual);
        self.fcm.train(key, actual);
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u32) -> PredKey {
        PredKey {
            sp_pc: n,
            cqip_pc: n.wrapping_mul(7) + 1,
            reg: (n % 32) as u8,
        }
    }

    #[test]
    fn budgets_round_to_powers_of_two() {
        assert_eq!(StridePredictor::with_budget(16 * 1024).table.len(), 1024);
        assert_eq!(LastValuePredictor::with_budget(16 * 1024).table.len(), 2048);
        let f = FcmPredictor::with_budget(16 * 1024);
        assert_eq!(f.contexts.len(), 1024);
        assert_eq!(f.values.len(), 1024);
    }

    #[test]
    fn last_value_repeats() {
        let mut p = LastValuePredictor::with_budget(1024);
        p.train(key(1), 42);
        assert_eq!(p.predict(key(1)), 42);
        p.train(key(1), 43);
        assert_eq!(p.predict(key(1)), 43);
    }

    #[test]
    fn stride_learns_arithmetic_sequences() {
        let mut p = StridePredictor::with_budget(16 * 1024);
        let k = key(9);
        let mut correct = 0;
        for i in 0..20u64 {
            let actual = 1000 + 16 * i;
            if p.predict(k) == actual {
                correct += 1;
            }
            p.train(k, actual);
        }
        // After a two-observation warm-up, every prediction hits.
        assert!(correct >= 17, "stride correct {correct}/20");
    }

    #[test]
    fn stride_with_zero_stride_acts_as_last_value() {
        let mut p = StridePredictor::with_budget(16 * 1024);
        let k = key(2);
        for _ in 0..5 {
            p.train(k, 777);
        }
        assert_eq!(p.predict(k), 777);
    }

    #[test]
    fn stride_two_delta_resists_one_off_jumps() {
        let mut p = StridePredictor::with_budget(16 * 1024);
        let k = key(3);
        for i in 0..10u64 {
            p.train(k, i * 8);
        }
        // One irregular observation must not clobber the learned stride.
        p.train(k, 5_000_000);
        p.train(k, 5_000_008);
        assert_eq!(p.predict(k), 5_000_016);
    }

    #[test]
    fn fcm_learns_repeating_patterns() {
        let mut p = FcmPredictor::with_budget(16 * 1024);
        let k = key(4);
        let pattern = [3u64, 1, 4, 1, 5, 9, 2, 6];
        // Warm up two full periods.
        for _ in 0..2 {
            for &v in &pattern {
                p.train(k, v);
            }
        }
        let mut correct = 0;
        for _ in 0..2 {
            for &v in &pattern {
                if p.predict(k) == v {
                    correct += 1;
                }
                p.train(k, v);
            }
        }
        assert!(correct >= 14, "fcm correct {correct}/16");
    }

    #[test]
    fn fcm_beats_stride_on_non_arithmetic_repeats() {
        let pattern = [10u64, 99, 7, 10, 99, 7];
        let mut fcm = FcmPredictor::with_budget(16 * 1024);
        let mut stride = StridePredictor::with_budget(16 * 1024);
        let k = key(5);
        let mut fcm_ok = 0;
        let mut stride_ok = 0;
        for round in 0..20 {
            for &v in &pattern {
                if round > 2 {
                    if fcm.predict(k) == v {
                        fcm_ok += 1;
                    }
                    if stride.predict(k) == v {
                        stride_ok += 1;
                    }
                }
                fcm.train(k, v);
                stride.train(k, v);
            }
        }
        assert!(fcm_ok > stride_ok, "fcm {fcm_ok} vs stride {stride_ok}");
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let k = PredKey {
            sp_pc: 11,
            cqip_pc: 29,
            reg: 5,
        };
        assert_eq!(k.hash64(), k.hash64());
        // Nearby keys spread across the space.
        let mut lows = std::collections::HashSet::new();
        for sp in 0..64u32 {
            lows.insert(
                PredKey {
                    sp_pc: sp,
                    cqip_pc: 29,
                    reg: 5,
                }
                .hash64()
                    & 1023,
            );
        }
        assert!(lows.len() > 48, "only {} distinct low bits", lows.len());
    }

    #[test]
    fn hybrid_tracks_the_better_component() {
        // Arithmetic stream: stride wins; repeating stream: FCM wins. The
        // hybrid must approach the better component on each.
        let run = |values: &[u64], rounds: usize| -> (u64, u64, u64) {
            let mut s = StridePredictor::with_budget(16 * 1024);
            let mut f = FcmPredictor::with_budget(16 * 1024);
            let mut h = HybridPredictor::with_budget(16 * 1024);
            let k = key(42);
            let (mut sh, mut fh, mut hh) = (0u64, 0u64, 0u64);
            for round in 0..rounds {
                for &v in values {
                    if round > 2 {
                        sh += u64::from(s.predict(k) == v);
                        fh += u64::from(f.predict(k) == v);
                        hh += u64::from(h.predict(k) == v);
                    }
                    s.train(k, v);
                    f.train(k, v);
                    h.train(k, v);
                }
            }
            (sh, fh, hh)
        };
        let arithmetic: Vec<u64> = (0..16).map(|i| 100 + 8 * i).collect();
        let (s1, _, h1) = run(&arithmetic, 8);
        assert!(h1 * 10 >= s1 * 8, "hybrid {h1} far below stride {s1}");
        let repeating = [7u64, 99, 3, 7, 99, 3, 7, 99, 3];
        let (_, f2, h2) = run(&repeating, 8);
        assert!(h2 * 10 >= f2 * 7, "hybrid {h2} far below fcm {f2}");
    }

    #[test]
    fn kind_factory_matches_modes() {
        assert!(ValuePredictorKind::Perfect.build(16 * 1024).is_none());
        assert!(ValuePredictorKind::None.build(16 * 1024).is_none());
        for kind in [
            ValuePredictorKind::LastValue,
            ValuePredictorKind::Stride,
            ValuePredictorKind::Fcm,
            ValuePredictorKind::Hybrid,
        ] {
            let p = kind.build(16 * 1024).expect("table-backed predictor");
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn same_pair_different_registers_do_not_collide() {
        // Regression test: the register is packed into high bits of the
        // pre-hash word; without downward mixing every live-in of a pair
        // lands in the same table slot and predictions become garbage.
        let p = StridePredictor::with_budget(16 * 1024);
        let base = PredKey {
            sp_pc: 5,
            cqip_pc: 5,
            reg: 0,
        };
        let mut slots = std::collections::HashSet::new();
        for reg in 0..32u8 {
            slots.insert(p.idx(PredKey { reg, ..base }));
        }
        assert!(
            slots.len() >= 28,
            "only {} distinct slots for 32 regs",
            slots.len()
        );
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        let mut p = StridePredictor::with_budget(16 * 1024);
        p.train(key(100), 1111);
        p.train(key(200), 2222);
        // Note: collisions are *possible* by design; these two keys happen
        // to map apart with the current hash (regression guard).
        assert_ne!(
            p.idx(key(100)),
            p.idx(key(200)),
            "hash regression: keys collided"
        );
    }

    /// The fused call answers and trains exactly as `predict` followed by
    /// `train` does, for every predictor, over keys that alias in a small
    /// table and values with strides, repeats and jumps.
    #[test]
    fn predict_and_train_equals_predict_then_train() {
        fn check(mut fused: Box<dyn ValuePredictor>, mut split: Box<dyn ValuePredictor>) {
            for i in 0..2_000u64 {
                let k = key((i % 37) as u32);
                let actual = match i % 5 {
                    0 => i * 8,
                    1 => 42,
                    _ => i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 61),
                };
                let guess = split.predict(k);
                split.train(k, actual);
                assert_eq!(
                    fused.predict_and_train(k, actual),
                    guess,
                    "{}",
                    fused.name()
                );
            }
        }
        for kind in [
            ValuePredictorKind::LastValue,
            ValuePredictorKind::Stride,
            ValuePredictorKind::Fcm,
            ValuePredictorKind::Hybrid,
        ] {
            let build = || kind.build(256).expect("a table-backed kind");
            check(build(), build());
        }
    }
}
